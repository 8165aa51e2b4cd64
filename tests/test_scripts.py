import os
import subprocess
import sys

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
