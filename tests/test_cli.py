import ast
import dataclasses
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minorkern import cli, samplers, scaling
from minorkern import orthopoly as op
from minorkern.cli import RunConfig, main


def run(args):
    return main(args)


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        assert run([]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["density", "--ensemble", "gaussian", "--species", "1",
                    "--grid", "0:1:0"]) == 2

    def test_unknown_suite(self, capsys):
        assert run(["validate", "--suite", "nonsense"]) == 2

    def test_bad_grid_spec(self, capsys):
        assert run(["density", "--N", "1", "--grid", "0:1"]) == 2

    def test_zero_grid_step(self, capsys):
        assert run(["density", "--N", "1", "--grid", "0:0:3"]) == 2
        assert "grid step must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:1:inf", "0:1e-320:1", "nan:1:2"])
    def test_grid_without_finite_points(self, grid, capsys):
        assert run(["density", "--N", "1", "--grid", grid]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_invalid_parameters(self, capsys):
        assert run(["density", "--N", "1", "--ensemble", "laguerre", "--a", "-2",
                    "--grid", "0:1:1"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, seed, capsys):
        assert run(["sample", "--process", "gue-minor", "--N", "2", "--draws", "3",
                    "--seed", seed]) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err

    def test_sampler_vs_kernel_rejects_large_N(self, capsys):
        assert run(["validate", "--suite", "sampler-vs-kernel", "--N", "7",
                    "--draws", "10"]) == 2
        assert "N <= 4" in capsys.readouterr().err

    def test_oracle_rejects_large_N(self, capsys):
        assert run(["validate", "--suite", "oracle", "--N", "4"]) == 2
        assert "N <= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["biorthogonality", "oracle", "sampler-vs-kernel", "gauge"])
    def test_suite_rejects_N_below_one(self, suite, capsys):
        assert run(["validate", "--suite", suite, "--N", "0"]) == 2
        assert "--N must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text,args", [
        ('{"N": 2.5}', ["kernel", "--species", "1", "2", "--points", "0", "0.5"]),
        ('{"N": 1e400}', ["density", "--grid", "0:1:1"]),
    ], ids=["fraction", "overflow"])
    def test_config_N_must_be_an_integer(self, text, args, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(args + ["--config", str(cfg)]) == 2
        assert "--N must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -3])
    def test_config_N_below_one(self, n, tmp_path, capsys):
        # a file's N of 0 equals the field's default, yet it is given
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": n}))
        assert run(["validate", "--suite", "oracle", "--config", str(cfg)]) == 2
        assert "--N must be >= 1" in capsys.readouterr().err

    def test_limit_kernel_range_is_a_usage_error(self, capsys):
        # the Airy kernel takes positions in [-20, 20]
        assert run(["limitcheck", "--regime", "soft", "--ensemble", "gaussian", "--N", "50",
                    "--offsets", "0", "--positions", "30"]) == 2
        assert "limited to [-20, 20]" in capsys.readouterr().err

    def test_overflow_in_the_numerics_is_a_numeric_error(self, capsys):
        # the entry K between these distant species is e^1034, outside
        # double range; that is not the user's input at fault
        assert run(["kernel", "--ensemble", "gaussian", "--N", "800", "--species", "790", "500",
                    "--points", "1.2", "1.0"]) == 1
        assert "outside double range" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("args,tolerance", [
        ("--regime soft --ensemble gaussian --N 400 --offsets 0 0 --positions -8 -6.25", 0.05),
        ("--regime soft-drift --ensemble laguerre --a 0 --N 1600 --offsets 0 0.5 --positions 0 0.3", 0.01),
        ("--regime soft-drift --ensemble gaussian --N 6400 --offsets 0 -0.5 --positions 0 0.3", 0.01),
    ], ids=["soft-negative-airy", "soft-drift-laguerre", "soft-drift-gaussian"])
    def test_limitcheck_pairs_agree(self, args, tolerance, capsys):
        # the finite pairs are formed from their entries' logs, which stay in
        # range where the entries do not, and the limit pairs by the same rule
        assert run(["limitcheck", *args.split(), "--tolerance", str(tolerance)]) == 0

    @pytest.mark.parametrize("name", ["missing.json", ""], ids=["missing", "directory"])
    def test_unreadable_config_is_a_usage_error(self, name, tmp_path, capsys):
        path = str(tmp_path / name)
        assert run(["lpp", "--config", path]) == 2
        assert f"config file {path}" in capsys.readouterr().err


class TestDensity:
    def test_single_value(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = run(["density", "--ensemble", "gaussian", "--N", "1", "--species", "1",
                    "--grid", "0:1:0", "--out", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "species,y,rho1"
        s, y, rho = rows[1].split(",")
        assert float(rho) == pytest.approx(0.5641895835, rel=1e-9)

    def test_laguerre_mass_postprocessed(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        # step chosen so the trapezoid rule's own boundary error stays below
        # the tolerance (at 0.01 it alone contributes ~7.5e-5)
        code = run(["density", "--ensemble", "laguerre", "--a", "0", "--N", "3",
                    "--species", "3", "--grid", "0:0.002:40", "--out", str(out)])
        assert code == 0
        data = np.array([[float(v) for v in l.split(",")]
                         for l in out.read_text().splitlines()[3:]])
        mass = float(np.trapezoid(data[:, 2], data[:, 1]))
        assert mass == pytest.approx(3.0, abs=1e-5)


class TestSample:
    def test_deterministic_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run(["sample", "--process", "gue-minor", "--N", "3", "--draws", "20",
                        "--seed", "11", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_row_count_contract(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["sample", "--process", "gue-minor", "--N", "3", "--draws", "50",
                    "--seed", "1", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "draw"))]
        assert len(rows) == 50 * (1 + 2 + 3)

    def test_projection_jacobi_in_unit_interval(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["sample", "--process", "projection", "--ensemble", "jacobi",
                    "--a", "1", "--b", "1", "--n", "4", "--depth", "2", "--N", "4",
                    "--draws", "30", "--seed", "5", "--out", str(out)]) == 0
        vals = [float(l.split(",")[3]) for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "draw"))]
        assert all(0.0 < v < 1.0 for v in vals)

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("MINORKERN_SEED", "77")
        assert run(["sample", "--process", "gue-minor", "--N", "2", "--draws", "5",
                    "--out", str(a)]) == 0
        monkeypatch.delenv("MINORKERN_SEED")
        assert run(["sample", "--process", "gue-minor", "--N", "2", "--draws", "5",
                    "--seed", "77", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestSampleFlags:
    """Each --process takes the flags it uses; a projection's size is --n."""

    def _csv(self, tmp_path, args):
        out = tmp_path / "s.csv"
        code = run(["sample", *args, "--draws", "7", "--seed", "3", "--out", str(out)])
        return code, out.read_text() if code == 0 else None

    def test_projection_needs_no_N(self, tmp_path, capsys):
        code, text = self._csv(tmp_path, ["--process", "projection", "--n", "3", "--depth", "1"])
        assert code == 0
        direct = samplers.sample_projection_batch(op.EnsembleSpec(op.GAUSSIAN), 3, 1, 7, 3)
        assert text == samplers.chains_to_csv(direct, ensemble=op.GAUSSIAN, N=3, seed=3)

    def test_projection_N_other_than_n_exits_2(self, tmp_path, capsys):
        assert self._csv(tmp_path, ["--process", "projection", "--n", "3", "--N", "4"])[0] == 2
        assert "--N 4 differs from --n 3" in capsys.readouterr().err

    @pytest.mark.parametrize("process, flag", [("gue-minor", "--n"), ("gue-minor", "--depth"),
                                               ("lue-chain", "--depth")])
    def test_flags_the_process_does_not_use_exit_2(self, tmp_path, capsys, process, flag):
        assert self._csv(tmp_path, ["--process", process, "--N", "3", flag, "2"])[0] == 2
        assert f"{flag} does not apply to --process {process}" in capsys.readouterr().err

    @pytest.mark.parametrize("process", ["gue-minor", "lue-chain"])
    @pytest.mark.parametrize("flag, value", [("--ensemble", "laguerre"), ("--ensemble", "jacobi"),
                                             ("--a", "3"), ("--b", "1")])
    def test_fixed_ensemble_processes_reject_ensemble_flags(self, tmp_path, capsys, process, flag, value):
        # gue-minor is always Gaussian and lue-chain always Laguerre a=0
        assert self._csv(tmp_path, ["--process", process, "--N", "3", flag, value])[0] == 2
        assert f"{flag} does not apply to --process {process}" in capsys.readouterr().err

    @pytest.mark.parametrize("args, direct", [
        (["--process", "projection", "--ensemble", "gaussian", "--N", "3", "--n", "3", "--depth", "2"],
         lambda: samplers.sample_projection_batch(op.EnsembleSpec(op.GAUSSIAN), 3, 2, 7, 3)),
        (["--process", "lue-chain", "--N", "4", "--n", "3"],
         lambda: samplers.sample_lue_batch(4, 3, 7, 3)),
    ], ids=["projection-N3-n3", "lue-chain-N4-n3"])
    def test_benchmark_flag_sets_match_direct_batches(self, tmp_path, capsys, args, direct):
        code, text = self._csv(tmp_path, args)
        assert code == 0
        meta = samplers.chains_from_csv(text)[1]
        assert text == samplers.chains_to_csv(direct(), ensemble=meta["ensemble"], N=int(meta["N"]), seed=3)

    def test_config_file_defaults_are_not_flags(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_json(subcommand="sample", process="gue-minor", N=3))
        assert self._csv(tmp_path, ["--config", str(cfg)])[0] == 0
        cfg.write_text(config_json(subcommand="sample", process="gue-minor", N=3, depth=1))
        assert self._csv(tmp_path, ["--config", str(cfg)])[0] == 2


def config_json(**fields) -> str:
    """A --config file: every RunConfig field, defaults included."""
    return json.dumps(dataclasses.asdict(RunConfig(**fields)), sort_keys=True)


class TestConfigRoundTrip:
    def test_serialize_parse_idempotent(self, tmp_path):
        # from_dict reads a config file's JSON lists back as tuples
        cfg = RunConfig(subcommand="density", ensemble="laguerre", a=1.0, N=4,
                        species=(1, 2), grid_min=-1, grid_max=1, grid_step=0.5, seed=3)
        again = RunConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg

    def test_flags_override_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(config_json(subcommand="density", N=1, grid_min=0.0,
                                       grid_max=0.0, grid_step=1.0, species=(1,)))
        out = tmp_path / "o.csv"
        assert run(["density", "--config", str(cfgfile), "--ensemble", "gaussian",
                    "--out", str(out)]) == 0
        assert "0.5641895" in out.read_text()


class TestKernelAndCorrelation:
    def test_kernel_value(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert run(["kernel", "--N", "1", "--species", "1", "1",
                    "--points", "0", "0", "--out", str(out)]) == 0
        val = float(out.read_text().splitlines()[1])
        assert val == pytest.approx(1 / math.sqrt(math.pi), rel=1e-10)

    def test_correlation_value(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["correlation", "--N", "2", "--species", "1", "2",
                    "--points", "0.0", "0.5", "--out", str(out)]) == 0
        val = float(out.read_text().splitlines()[1])
        assert val == pytest.approx(0.4675956, abs=1e-5)


    def test_infinite_weight_point_is_a_usage_error(self, capsys):
        assert run(["kernel", "--ensemble", "laguerre", "--a", "-0.5", "--N", "1",
                    "--species", "1", "1", "--points", "0.6453", "0"]) == 2
        assert run(["correlation", "--ensemble", "jacobi", "--a", "-0.5", "--b", "-0.3",
                    "--N", "3", "--species", "3", "3", "--points", "0.4", "1.0"]) == 2
        assert "infinite" in capsys.readouterr().err

class TestSuitesAndReports:
    def test_bead_det_suite(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["validate", "--suite", "bead-det", "--seed", "1",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] and rep["suite"] == "bead-det"

    def test_rsk_suite(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["validate", "--suite", "rsk", "--draws", "300", "--seed", "2",
                    "--out", str(out)]) == 0

    def test_gauge_suite(self, tmp_path, capsys):
        assert run(["validate", "--suite", "gauge", "--ensemble", "gaussian",
                    "--N", "4", "--seed", "3"]) == 0

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_gauge_suite_near_cancelling_determinants(self, seed, capsys):
        # these seeds draw determinants far below their entries' scale
        assert run(["validate", "--suite", "gauge", "--seed", seed]) == 0

    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_gauge_suite_laguerre_rows_of_unequal_size(self, seed, capsys):
        # one point far out in species 1 makes a gauged row of size 1e-19;
        # the zero test must not read such a resolved determinant as 0
        assert run(["validate", "--suite", "gauge", "--ensemble", "laguerre", "--a", "1",
                    "--N", "4", "--seed", seed]) == 0

    def test_gauge_suite_rejects_non_gauge_change(self, monkeypatch, capsys):
        # K(s,.;t,.) c(s) c(t) is no gauge change: it scales each determinant
        # by the product of c(s)^2 over its points
        kernel_K = cli.kernel_K

        def skewed(proc, p1, p2):
            v = kernel_K(proc, p1, p2)
            return dataclasses.replace(v, value=v.value * (1 + p1.s) * (1 + p2.s))

        monkeypatch.setattr(cli, "kernel_K", skewed)
        assert run(["validate", "--suite", "gauge", "--ensemble", "gaussian",
                    "--N", "4", "--seed", "3"]) == 1

    def test_sampler_vs_kernel_jacobi_per_bin_bound(self, capsys):
        # the Jacobi density peaks near 4.5, where a bin's noise is far above
        # 0.02; the default per-bin bound accepts the correct sampler, the
        # absolute --tolerance keeps its meaning and rejects it
        args = ["validate", "--suite", "sampler-vs-kernel", "--ensemble", "jacobi",
                "--a", "1", "--b", "1", "--N", "3", "--draws", "10000", "--seed", "5"]
        assert run(args) == 0
        assert run(args + ["--tolerance", "0.02"]) == 1

    def test_oracle_suite(self, capsys):
        assert run(["validate", "--suite", "oracle", "--ensemble", "gaussian",
                    "--N", "2"]) == 0

    @pytest.mark.parametrize("suite,default", [
        ("biorthogonality", 10), ("oracle", 2), ("sampler-vs-kernel", 3), ("gauge", 4)])
    @pytest.mark.parametrize("given", [None, 1, 3])
    def test_suite_runs_the_given_N(self, monkeypatch, suite, default, given):
        # the suite's default applies only when --N is not given
        seen = []

        class Ran(Exception):
            pass

        def spec(ensemble, N):
            seen.append(N)
            raise Ran

        monkeypatch.setattr(cli, "ProcessSpec", spec)
        with pytest.raises(Ran):
            run(["validate", "--suite", suite] + ([] if given is None else ["--N", str(given)]))
        assert seen == [default if given is None else given]

    def test_sampler_vs_kernel_one_species(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["validate", "--suite", "sampler-vs-kernel", "--ensemble", "gaussian", "--N", "1",
             "--draws", "200", "--seed", "0", "--out", str(out)])
        assert [c["name"] for c in json.loads(out.read_text())["checks"]] == [
            "species 1 sup-norm / per-bin bound"]

    def test_lpp_subcommand(self, tmp_path, capsys):
        out = tmp_path / "lpp.json"
        assert run(["lpp", "--n", "3", "--draws", "4000", "--seed", "4",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert set(rep) >= {"statistic", "critical_value", "draws", "seed", "pass"}

    def test_scaling_subcommand(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run(["scaling", "--regime", "soft", "--ensemble", "gaussian",
                    "--n-list", "25", "50", "100", "--offsets", "0",
                    "--positions", "0.0", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["converged"]
        assert os.path.exists(str(out).replace(".json", ".csv"))
        expect = scaling.convergence_report("soft", op.EnsembleSpec(op.GAUSSIAN), (25, 50, 100),
                                            (0.0,), (0.0,))
        assert out.read_text() == json.dumps(expect, sort_keys=True) + "\n"

    def test_limitcheck_subcommand(self, tmp_path, capsys):
        assert run(["limitcheck", "--regime", "hard", "--ensemble", "laguerre",
                    "--a", "0", "--N", "60", "--offsets", "0", "--positions", "0.0"]) == 0

    def test_limitcheck_tolerance_sets_exit_code(self, capsys):
        # the worst |finite - limit| here is about 1.9e-3
        args = ["limitcheck", "--N", "20", "--regime", "soft", "--offsets", "0",
                "--positions", "0.0"]
        assert run(args) == 0
        assert run(args + ["--tolerance", "1e-6"]) == 1
        assert run(args + ["--tolerance", "1e-2"]) == 0

    def test_limitcheck_hard_edge_at_the_origin(self, capsys):
        # both points at X = 0: the cross-species limit entries are 0
        assert run(["limitcheck", "--regime", "hard", "--ensemble", "laguerre", "--N", "50",
                    "--offsets", "0", "1", "--positions", "0", "0"]) == 0


def _seeded_command_lines():
    """A minimal command line for each subcommand, process and suite that reads --seed."""
    for command, (_, _, reads) in cli._COMMANDS.items():
        key, variants = reads if isinstance(reads[-1], dict) else (None, {None: reads})
        for value, flags in variants.items():
            if "seed" in flags:
                yield [command, *([f"--{key}", value] if key else []), *(["--N", "2"] if "N!" in flags else [])]


class TestFlagsThatDoNotApply:
    """Every subcommand, process and suite takes exactly the flags it reads."""

    @pytest.mark.parametrize("args, flag, where", [
        (["density", "--N", "2", "--grid", "0:1:0", "--seed", "7"], "--seed", "density"),
        (["density", "--N", "2", "--grid", "0:1:0", "--seed=7"], "--seed", "density"),
        (["kernel", "--N", "2", "--species", "1", "2", "--points", "0", "0", "--draws", "5"], "--draws", "kernel"),
        (["correlation", "--N", "2", "--species", "1", "--points", "0", "--tolerance", "1"],
         "--tolerance", "correlation"),
        (["sample", "--process", "projection", "--n", "3", "--tolerance", "1"], "--tolerance", "sample"),
        (["scaling", "--regime", "soft", "--N", "5"], "--N", "scaling"),
        (["scaling", "--regime", "soft", "--n", "5"], "--n", "scaling"),
        (["lpp", "--n", "3", "--ensemble", "jacobi", "--a", "5"], "--ensemble", "lpp"),
        (["limitcheck", "--N", "20", "--seed", "3"], "--seed", "limitcheck"),
        (["validate", "--suite", "biorthogonality", "--seed", "1"], "--seed", "--suite biorthogonality"),
        (["validate", "--suite", "oracle", "--draws", "10"], "--draws", "--suite oracle"),
        (["validate", "--suite", "sampler-vs-kernel", "--regime", "bulk"], "--regime", "--suite sampler-vs-kernel"),
        (["validate", "--suite", "gauge", "--n", "3"], "--n", "--suite gauge"),
        (["validate", "--suite", "rsk", "--N", "3", "--tolerance", "1e-9"], "--N", "--suite rsk"),
        (["validate", "--suite", "lpp-bridge", "--tolerance", "1e-9"], "--tolerance", "--suite lpp-bridge"),
        (["validate", "--suite", "bead-det", "--ensemble", "jacobi"], "--ensemble", "--suite bead-det"),
        (["validate", "--suite", "scaling", "--seed", "3"], "--seed", "--suite scaling"),
    ], ids=["density", "density-flag=value", "kernel", "correlation", "sample", "scaling",
            "scaling-prefix-of-n-list", "lpp", "limitcheck",
            *(f"validate-{suite}" for suite in ("biorthogonality", "oracle", "sampler-vs-kernel", "gauge", "rsk",
                                                "lpp-bridge", "bead-det", "scaling"))])
    def test_flag_not_read_exits_2(self, args, flag, where, capsys):
        assert run(args) == 2
        assert f"{flag} does not apply to {where}" in capsys.readouterr().err

    def test_config_field_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_json(tolerance=1.0))
        assert run(["lpp", "--n", "3", "--draws", "10", "--config", str(cfg)]) == 2
        assert "--tolerance does not apply to lpp" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [('{"sed": 7}', "'sed'"), ("[7]", "'list'")], ids=["key", "list"])
    def test_config_that_is_no_run_config_exits_2(self, text, error, tmp_path, capsys):
        # a misspelt seed once ran with seed 0, and a list with the defaults
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert run(["sample", "--N", "2", "--draws", "3", "--config", str(cfg)]) == 2
        assert error in capsys.readouterr().err

    def test_config_of_defaults_runs_where_N_is_not_read(self, tmp_path, capsys):
        # the file's N = 0 is the default, so bead-det is not given a --N
        cfg = tmp_path / "c.json"
        cfg.write_text(config_json())
        assert run(["validate", "--suite", "bead-det", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("argv", list(_seeded_command_lines()),
                             ids=lambda argv: "-".join(a for a in argv[:3] if a[:2] != "--"))
    def test_env_seed_reaches_every_command_that_reads_seed(self, argv, monkeypatch):
        monkeypatch.setenv("MINORKERN_SEED", "77")
        assert cli._merge_config(cli._build_parser().parse_args(argv)).seed == 77


CLI_TREE = ast.parse(Path(cli.__file__).read_text())
FUNCTIONS = {node.name: node for node in CLI_TREE.body if isinstance(node, ast.FunctionDef)}


def _fields_read(runner) -> set[str]:
    """The flags a runner reads: each cfg.<field>, cfg.spec() as the ensemble
    and its two parameters, and _grid(cfg) as the grid."""
    read = set()
    for node in ast.walk(FUNCTIONS[runner.__name__]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg":
            read |= {"ensemble", "a", "b"} if node.attr == "spec" else {node.attr.replace("_", "-")}
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_grid":
            read.add("grid")
    return read


def _read_and_declared():
    """(name, the flags its runners read, the flags it declares) for each
    subcommand and suite; sample declares the union over its processes."""
    for command, (runner, _, reads) in cli._COMMANDS.items():
        if command == "validate":
            for suite, (suite_runner, flags) in cli._SUITES.items():
                yield f"validate-{suite}", _fields_read(runner) | _fields_read(suite_runner), {"suite", *flags}
        elif isinstance(reads[-1], dict):
            yield command, _fields_read(runner), {reads[0], *itertools.chain(*reads[1].values())}
        else:
            yield command, _fields_read(runner), set(reads)


def test_the_flag_scan_sees_the_runners():
    assert _fields_read(cli.cmd_density) == {"N", "ensemble", "a", "b", "species", "grid", "out"}
    assert _fields_read(cli.cmd_scaling) >= {"n-list", "regime"}
    assert len(list(_read_and_declared())) == len(cli._COMMANDS) - 1 + len(cli._SUITES)


@pytest.mark.parametrize("name, read, declared", list(_read_and_declared()),
                         ids=[name for name, _, _ in _read_and_declared()])
def test_declared_flags_are_the_fields_read(name, read, declared):
    assert read == {flag.rstrip("!") for flag in declared} | {"out"}


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("minorkern ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    args = cli._build_parser().parse_args(argv)
    assert args.subcommand == argv[0]


def test_readme_shows_every_subcommand():
    assert sorted(argv[0] for argv in _readme_commands()) == sorted(cli._COMMANDS)


def _loaded_by_cli_import(module):
    """Whether a fresh `import minorkern.cli` loads the module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, minorkern.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about 0.4 s and 20 MB of start-up, and no command needs it
    assert not _loaded_by_cli_import("scipy.stats")


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate brings scipy.optimize, linalg and sparse: about 0.25 s and
    # 26 MB of start-up; the package's integrals are its own fixed rules
    assert not _loaded_by_cli_import("scipy.integrate")
