#!/usr/bin/env bash
# The installed console script end to end: sim, analyze (twice, and the
# two reports must be byte-identical), validate, train and replay, writing
# into the directory given as the one argument.
#
#   ci/smoke.sh "$(mktemp -d)"
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 TMPDIR" >&2
  exit 2
fi
tmp=$1

exobench sim --kind session-set --subjects 1 --seed 1 --seconds 2 --out "$tmp/set"
# the report is byte-reproducible: a second run writes the same bytes
exobench analyze "$tmp/set" --out "$tmp/report.json"
exobench analyze "$tmp/set" --out "$tmp/report2.json"
cmp "$tmp/report.json" "$tmp/report2.json"
exobench validate "$tmp/set/calibration.json" "$tmp/set/eq_definition.json" \
  "$tmp/set/fuzzy_model.json" "$tmp"/set/subjects/s01/*.csv \
  "$tmp"/set/questionnaire_*.csv "$tmp"/set/subjects/s01/physio/*.csv
exobench sim --kind training --seed 1 --out "$tmp/training.csv"
exobench train "$tmp/training.csv" --out "$tmp/model.json"
exobench sim --kind gait --seed 1 --rate 5000 --seconds 2 --out "$tmp/gait.csv"
exobench replay "$tmp/gait.csv" --model "$tmp/model.json" \
  --calibration "$tmp/set/calibration.json" --report "$tmp/replay.json"
