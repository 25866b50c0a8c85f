"""CLI integration tests: the pipeline as subcommands on real files."""

import numpy as np
import pytest

from repro.cli import main
from repro.data import DrivingDataset
from repro.milp import MILPOptions
from repro.nn.serialization import load_network


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.npz"
    code = main(
        [
            "generate",
            "--episodes", "3",
            "--steps", "120",
            "--seed", "1",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def net_file(tmp_path_factory, data_file):
    path = tmp_path_factory.mktemp("cli") / "net.json"
    code = main(
        [
            "train",
            "--data", str(data_file),
            "--width", "4",
            "--epochs", "15",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestTable1:
    def test_prints_matrix(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "neuron-to-feature" in out


class TestGenerate:
    def test_writes_valid_dataset(self, data_file, capsys):
        dataset = DrivingDataset.load(data_file)
        assert len(dataset) == 360
        assert dataset.x.shape[1] == 84

    def test_output_mentions_validation(self, tmp_path, capsys):
        path = tmp_path / "d.npz"
        main(["generate", "--episodes", "1", "--steps", "50",
              "--out", str(path)])
        out = capsys.readouterr().out
        assert "VALID" in out
        assert "wrote" in out


class TestTrain:
    def test_writes_loadable_network(self, net_file):
        network = load_network(net_file)
        assert network.architecture_id == "I4x4"
        assert network.input_dim == 84

    def test_hinted_training_flag(self, tmp_path, data_file):
        path = tmp_path / "hinted.json"
        code = main(
            [
                "train",
                "--data", str(data_file),
                "--width", "3",
                "--epochs", "5",
                "--hint-weight", "10.0",
                "--out", str(path),
            ]
        )
        assert code == 0
        assert load_network(path).architecture_id == "I4x3"


class TestVerify:
    def test_prints_table_ii_row(self, data_file, net_file, capsys):
        code = main(
            [
                "verify",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out
        assert "I4x4" in out

    def test_decision_query_exit_code(self, data_file, net_file, capsys):
        code = main(
            [
                "verify",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
                "--threshold", "1000.0",  # trivially provable
            ]
        )
        assert code == 0
        assert "PROVEN" in capsys.readouterr().out

    def test_failed_component_exits_nonzero(
        self, data_file, net_file, capsys, monkeypatch
    ):
        """A component query that errors is a failure, not "n.a."."""
        from repro.core.verifier import Verifier

        real = Verifier.maximize

        def maximize(self, region, objective, *args, **kwargs):
            if objective.description == "mu_lat[component 1]":
                raise RuntimeError("injected solver fault")
            return real(self, region, objective, *args, **kwargs)

        monkeypatch.setattr(Verifier, "maximize", maximize)
        code = main(
            [
                "verify",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
                "--threshold", "1000.0",  # the decision query still proves
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "verification error" in captured.out
        assert "injected solver fault" in captured.out + captured.err

    def test_removed_cut_options_rejected(self):
        with pytest.raises(TypeError):
            MILPOptions(cuts=True)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--data", "d.npz", "--net", "n.json", "--cuts"])
        assert exc.value.code == 2

    def test_split_flag(self, data_file, net_file, tmp_path, capsys):
        trace = tmp_path / "split.jsonl"
        code = main(
            [
                "verify",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
                "--bound-mode", "symbolic",
                "--split",
                "--split-depth", "2",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out and "I4x4" in out
        assert main(["trace", "summarize", str(trace)]) == 0
        summary = capsys.readouterr().out
        assert "region bisection:" in summary


class TestCampaign:
    @pytest.fixture(scope="class")
    def second_net_file(self, tmp_path_factory, data_file):
        path = tmp_path_factory.mktemp("cli") / "net5.json"
        code = main(
            [
                "train",
                "--data", str(data_file),
                "--width", "5",
                "--epochs", "15",
                "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_parallel_sweep(
        self, data_file, net_file, second_net_file, capsys
    ):
        code = main(
            [
                "campaign",
                "--data", str(data_file),
                "--net", str(net_file),
                "--net", str(second_net_file),
                "--jobs", "2",
                "--time-limit", "120",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verification campaign" in out
        assert "2 networks x 2 queries" in out
        assert "[4/4]" in out            # per-cell progress lines
        assert "2 workers" in out        # summary accounting
        assert "TABLE II" in out
        assert "I4x4" in out and "I4x5" in out

    def test_duplicate_architecture_rejected(
        self, data_file, net_file
    ):
        from repro.errors import CertificationError

        with pytest.raises(CertificationError):
            main(
                [
                    "campaign",
                    "--data", str(data_file),
                    "--net", str(net_file),
                    "--net", str(net_file),
                ]
            )

    def test_verify_jobs_flag(self, data_file, net_file, capsys):
        code = main(
            [
                "verify",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
                "--jobs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out
        assert "I4x4" in out


class TestTraceObservability:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory, data_file, net_file):
        path = tmp_path_factory.mktemp("cli") / "out.jsonl"
        code = main(
            [
                "verify",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
                "--trace", str(path),
            ]
        )
        assert code == 0
        return path

    def test_trace_flag_writes_jsonl(self, trace_file, capsys):
        from repro.obs.summarize import load_trace

        records = load_trace(str(trace_file))
        spans = {
            r["name"] for r in records if r.get("type") == "span"
        }
        assert {"query", "bounds", "encode", "solve"} <= spans

    def test_phase_durations_cover_total(self, trace_file):
        """Acceptance: per-phase durations sum to ~the root wall time."""
        from repro.obs.summarize import load_trace, summarize_trace

        summary = summarize_trace(load_trace(str(trace_file)))
        assert summary.total_wall > 0.0
        assert 0.9 <= summary.phase_coverage <= 1.0 + 1e-9

    def test_trace_summarize_renders(self, trace_file, capsys):
        code = main(["trace", "summarize", str(trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-phase time breakdown" in out
        assert "bounds" in out and "solve" in out

    def test_trace_tree_exports_dot(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "tree.dot"
        code = main(
            [
                "trace", "tree", str(trace_file),
                "--format", "dot", "--out", str(out_path),
            ]
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("digraph search_tree {")

    def test_campaign_trace_flag(
        self, data_file, net_file, tmp_path, capsys
    ):
        path = tmp_path / "campaign.jsonl"
        code = main(
            [
                "campaign",
                "--data", str(data_file),
                "--net", str(net_file),
                "--jobs", "2",
                "--time-limit", "120",
                "--trace", str(path),
            ]
        )
        assert code == 0
        from repro.obs.summarize import load_trace

        records = load_trace(str(path))
        cells = [
            r for r in records
            if r.get("type") == "span" and r["name"] == "cell"
        ]
        assert len(cells) == 2  # one per campaign cell
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out

    def test_log_level_rejects_unknown(self, data_file, net_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "verify",
                    "--data", str(data_file),
                    "--net", str(net_file),
                    "--log-level", "loud",
                ]
            )


class TestCertifyAndFigure:
    def test_certify_renders_case(self, data_file, net_file, capsys):
        main(
            [
                "certify",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
            ]
        )
        out = capsys.readouterr().out
        assert "Certification case" in out
        assert "Pillar" in out

    def test_figure1_renders(self, data_file, net_file, capsys):
        code = main(
            ["figure1", "--data", str(data_file), "--net", str(net_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lane" in out
        assert "action distribution" in out


class TestAudit:
    def test_clean_network_exits_zero(self, net_file, capsys):
        code = main(["audit", "--net", str(net_file)])
        assert code == 0
        assert "audit: clean" in capsys.readouterr().out

    def test_warnings_only_exits_zero(self, net_file, tmp_path, capsys):
        """Exit-code pin: warnings are advisory, only errors fail."""
        from repro.nn.serialization import save_network

        network = load_network(net_file)
        network.layers[0].weights[:, 0] = 0.0   # dead neuron (A002):
        network.layers[0].bias[0] = -1.0        # warning, not an error
        warn = tmp_path / "warn.json"
        save_network(network, warn)
        code = main(["audit", "--net", str(warn)])
        out = capsys.readouterr().out
        assert "A002" in out
        assert code == 0

    def test_with_data_audits_region_and_encoding(
        self, data_file, net_file, capsys
    ):
        code = main(
            [
                "audit",
                "--net", str(net_file),
                "--data", str(data_file),
                "--bound-mode", "symbolic",
            ]
        )
        assert code == 0
        assert "audit" in capsys.readouterr().out

    def test_corrupted_network_exits_one(self, net_file, tmp_path, capsys):
        import numpy as np

        from repro.nn.serialization import save_network

        network = load_network(net_file)
        network.layers[0].weights[0, 0] = np.nan
        bad = tmp_path / "bad.json"
        save_network(network, bad)
        code = main(["audit", "--net", str(bad)])
        assert code == 1
        assert "A001" in capsys.readouterr().out

    def test_json_report_written(self, net_file, tmp_path):
        import json

        out = tmp_path / "audit.json"
        code = main(["audit", "--net", str(net_file), "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-audit/1"
        assert payload["errors"] == 0


class TestCheck:
    @pytest.fixture(scope="class")
    def cert_dir(self, tmp_path_factory, data_file, net_file):
        """Certificates emitted by a certified decision query."""
        out = tmp_path_factory.mktemp("cli") / "certs"
        code = main(
            [
                "verify",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
                "--threshold", "1000.0",  # trivially provable
                "--certify",
                "--cert-out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_verify_certify_writes_certificates(self, cert_dir):
        assert len(sorted(cert_dir.glob("*.json"))) == 2

    def test_clean_certificates_exit_zero(self, cert_dir, capsys):
        paths = [str(p) for p in sorted(cert_dir.glob("*.json"))]
        code = main(["check", *paths])
        out = capsys.readouterr().out
        assert code == 0
        assert "A30" not in out  # no findings against genuine artifacts

    def test_tampered_certificate_exits_one(
        self, cert_dir, tmp_path, capsys
    ):
        import json

        path = sorted(cert_dir.glob("*.json"))[0]
        cert = json.loads(path.read_text())
        cert["threshold"] = -1e9  # claim something the replay refutes
        cert["property"]["threshold"] = -1e9
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(cert))
        code = main(["check", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "A305" in out

    def test_warnings_only_exits_zero(self, tmp_path, capsys):
        """Exit-code pin: a thin-slack warning (A309) is not a failure."""
        import numpy as np

        from repro.core.properties import InputRegion, OutputObjective
        from repro.nn import FeedForwardNetwork
        from repro.proof.certificate import save_certificate
        from repro.proof.emit import (
            assemble_static_certificate,
            record_chain,
        )
        from repro.tolerances import PROOF_REPLAY_TOL

        network = FeedForwardNetwork.mlp(
            2, [4], 1, rng=np.random.default_rng(7)
        )
        region = InputRegion(np.array([[-1.0, 1.0]] * 2))
        objective = OutputObjective.single(0)
        record = record_chain(network, region, objective.coefficients)
        margin = 1e-6
        cert = assemble_static_certificate(
            network, region, objective,
            float(record.objective_upper) + margin + 5 * PROOF_REPLAY_TOL,
            margin, "thin", record,
        )
        assert cert is not None
        path = tmp_path / "thin.json"
        save_certificate(cert, str(path))
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert "A309" in out
        assert code == 0

    def test_json_report_written(self, cert_dir, tmp_path):
        import json

        report_path = tmp_path / "check.json"
        paths = [str(p) for p in sorted(cert_dir.glob("*.json"))]
        code = main(["check", *paths, "--json", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["errors"] == 0

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "absent.json")])
        assert code == 1
        assert "A301" in capsys.readouterr().out


class TestCampaignPool:
    def test_cache_dir_survives_invocations(
        self, data_file, net_file, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        argv = [
            "campaign",
            "--data", str(data_file),
            "--net", str(net_file),
            "--time-limit", "120",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "verification campaign" in first
        assert "pool:" in first                  # stats line printed
        assert (cache_dir / "verdicts.jsonl").exists()
        # A fresh process-equivalent run answers from the spilled cache.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "verification campaign" in second
        assert "verdict cache 2 hits / 0 misses" in second

    def test_torn_cache_spills_do_not_break_a_run(
        self, data_file, net_file, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        argv = [
            "campaign",
            "--data", str(data_file),
            "--net", str(net_file),
            "--time-limit", "120",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # A kill mid-append leaves an unterminated half record behind.
        for name in ("verdicts.jsonl", "bounds.jsonl"):
            path = cache_dir / name
            data = path.read_bytes().rstrip(b"\n")
            path.write_bytes(data[: len(data) - len(data) // 3])
        assert main(argv) == 0
        assert "verdict cache 1 hits / 1 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "verdict cache 2 hits / 0 misses" in capsys.readouterr().out

    def test_pool_flag_without_cache_dir(
        self, data_file, net_file, capsys
    ):
        code = main(
            [
                "campaign",
                "--data", str(data_file),
                "--net", str(net_file),
                "--time-limit", "120",
                "--pool",
            ]
        )
        assert code == 0
        assert "pool:" in capsys.readouterr().out
