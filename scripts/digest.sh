#!/usr/bin/env bash
# Output digest of a small end-to-end run, for comparing two source trees file
# by file: make-corpus -> train (twin none / l2_plus_adversarial x mean /
# self_attention pooling) -> generate (--adaptive and --sentences 3) -> eval,
# then gradcheck --seed 0/1/2. Prints "sha256  path" for every output, paths
# relative to the work directory; log.jsonl is hashed without its wallclock
# field, the one output that differs between identical runs.
# Usage: scripts/digest.sh <workdir>   (runs the tree the script is in)
set -euo pipefail

WORK="${1:?usage: scripts/digest.sh <workdir>}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p "$WORK"
cd "$WORK"  # relative paths: outputs that name a path read the same in any workdir

python3 -m paracnn.cli make-corpus --seed 3 --size 40 --out data > make_corpus.txt

for twin in none l2_plus_adversarial; do
    for pooling in mean self_attention; do
        run="$twin-$pooling"
        python3 -m paracnn.cli train --data data --out "$run" --quiet \
            --set model.visual_dim=0 \
            --set model.max_sentences=3 --set model.max_words=8 \
            --set model.proj_dim=16 --set model.topic_dim=16 --set model.embed_dim=16 \
            --set model.context_dim=16 --set model.channels=16 \
            --set model.topic_kernel=3 --set model.word_kernel=3 \
            --set model.topic_depth=2 --set model.word_depth=3 \
            --set model.attn_layers=[2] --set model.attn_heads=2 \
            --set model.pooling=$pooling --set twin.mode=$twin --set twin.critic_hidden=16 \
            --set train.epochs=3 --set train.batch_size=8 --set train.lr=0.002
        mkdir -p "$run/adaptive" "$run/sentences3"
        python3 -m paracnn.cli generate --checkpoint "$run/best.pckpt" \
            --features data/test.jsonl --adaptive --out "$run/adaptive/hypotheses.txt"
        python3 -m paracnn.cli generate --checkpoint "$run/best.pckpt" \
            --features data/test.jsonl --sentences 3 --out "$run/sentences3/hypotheses.txt"
        for decode in adaptive sentences3; do
            python3 -m paracnn.cli eval --hypotheses "$run/$decode/hypotheses.txt" \
                --manifest data/test.jsonl --json "$run/$decode/scores.json" \
                > "$run/$decode/eval.txt"
        done
    done
done

for seed in 0 1 2; do
    # a failing check is an output too: its report is hashed like the others
    python3 -m paracnn.cli gradcheck --seed $seed > "gradcheck_$seed.txt" \
        || echo "gradcheck --seed $seed failed" >&2
done

python3 - <<'EOF'
import hashlib
import json
import os

for dirpath, dirnames, filenames in os.walk("."):
    dirnames.sort()
    for name in sorted(filenames):
        path = os.path.join(dirpath, name)[2:]
        with open(path, "rb") as fh:
            data = fh.read()
        if name == "log.jsonl":
            records = [json.loads(line) for line in data.splitlines()]
            data = "".join(json.dumps({k: v for k, v in rec.items() if k != "wallclock"},
                                      sort_keys=True) + "\n" for rec in records).encode()
        print(f"{hashlib.sha256(data).hexdigest()}  {path}")
EOF
