import os
import shlex
import subprocess
import sys

from paracnn import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_twin_comparison_script_runs_at_tiny_size():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "twin_comparison.py"),
         "--size", "10", "--epochs", "1", "--channels", "8"],
        capture_output=True, text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "== mode=none" in proc.stdout
    assert "== mode=l2_plus_adversarial" in proc.stdout
    assert "final ce: baseline=" in proc.stdout


def pipeline_commands():
    """argv of each ``paracnn.cli`` command in ``scripts/toy_pipeline.sh``, by subcommand."""
    with open(os.path.join(ROOT, "scripts", "toy_pipeline.sh")) as fh:
        text = fh.read().replace("\\\n", " ")
    commands = {}
    for line in text.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:3] == ["python3", "-m", "paracnn.cli"]:
            commands[argv[3]] = argv[3:]
    return commands


def test_toy_pipeline_settings_resolve():
    # the overrides and flags the shipped script passes must stay valid keys and options
    commands = pipeline_commands()
    assert sorted(commands) == ["eval", "generate", "make-corpus", "train"]
    for name, argv in commands.items():
        assert cli.build_parser().parse_args(argv).command == name
    train = commands["train"]
    overrides = [value for flag, value in zip(train, train[1:]) if flag == "--set"]
    assert len(overrides) == train.count("--set") > 0
    cli.load_run_config(None, overrides, default_vocab_size=20, default_visual_dim=6)
