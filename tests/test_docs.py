"""The documentation link/reference checker passes on the repo itself."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_check_docs_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_docs.py"), str(ROOT)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_flags_broken_link(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "see [missing](docs/nope.md) and `repro.nosuch.module`\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_docs.py"),
         str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "broken link" in proc.stdout
    assert "unresolved module" in proc.stdout


def test_checker_flags_unknown_cli_subcommand(tmp_path):
    # The subcommand list is scraped from src/repro/cli.py, so give the
    # temp repo a minimal one; the fake invocation sits inside a fenced
    # block because that is where real usage examples live.
    cli = tmp_path / "src" / "repro"
    cli.mkdir(parents=True)
    (cli / "cli.py").write_text(
        'sub.add_parser("run")\nsub.add_parser("serve")\n',
        encoding="utf-8",
    )
    (tmp_path / "README.md").write_text(
        "```bash\npython -m repro nosuchcmd --flag\n"
        "python -m repro run fig9\n"
        "python -m repro --help\n"
        "python -m repro.bench.some_module\n```\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_docs.py"),
         str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "unknown CLI subcommand" in proc.stdout
    assert "nosuchcmd" in proc.stdout
    # the valid subcommand, the option and the module runner all pass
    assert proc.stdout.count("unknown CLI subcommand") == 1


def test_checker_flags_unknown_bench_target(tmp_path):
    # Bench targets are scraped from cli.py's BENCH_TARGETS tuple the same
    # import-free way as subcommands.
    cli = tmp_path / "src" / "repro"
    cli.mkdir(parents=True)
    (cli / "cli.py").write_text(
        'BENCH_TARGETS = ("engine",)\n'
        'sub.add_parser("bench")\n',
        encoding="utf-8",
    )
    (tmp_path / "README.md").write_text(
        "```bash\npython -m repro bench engine --quick\n"
        "python -m repro bench warpdrive\n"
        "python -m repro bench --help\n```\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_docs.py"),
         str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "unknown bench target" in proc.stdout
    assert "warpdrive" in proc.stdout
    # the valid target and the bare --help invocation both pass
    assert proc.stdout.count("unknown bench target") == 1


def test_checker_flags_blank_experiment_description(tmp_path):
    # The experiment registry and each run function's docstring are read
    # with ast, so the temp repo needs a registry and two bench modules:
    # one run function with a docstring, one without.
    repro = tmp_path / "src" / "repro"
    (repro / "bench").mkdir(parents=True)
    (repro / "cli.py").write_text(
        "def _experiment_registry():\n"
        "    from repro.bench.good import run_good\n"
        "    from repro.bench.bare import run_bare\n"
        "    return {\"good\": run_good, \"bare\": run_bare}\n",
        encoding="utf-8",
    )
    (repro / "bench" / "good.py").write_text(
        "def run_good():\n    \"\"\"Has a one-line description.\"\"\"\n",
        encoding="utf-8",
    )
    (repro / "bench" / "bare.py").write_text(
        "def run_bare():\n    return None\n", encoding="utf-8",
    )
    (tmp_path / "README.md").write_text("nothing to see\n",
                                        encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_docs.py"),
         str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "experiment `bare` has a blank description" in proc.stdout
    assert proc.stdout.count("blank description") == 1
