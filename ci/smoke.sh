#!/usr/bin/env bash
# The installed console script end to end: sim, analyze (twice, and the
# two reports must be byte-identical), validate, train and replay (twice,
# and the two command logs must match but for their step times), writing
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
  --calibration "$tmp/set/calibration.json" --report "$tmp/replay.json" \
  --out "$tmp/commands.csv"
# streaming replay is deterministic: a second run logs the same commands,
# all but the wall-clock step_time_us column
exobench replay "$tmp/gait.csv" --model "$tmp/model.json" \
  --calibration "$tmp/set/calibration.json" --out "$tmp/commands2.csv"
cmp <(cut -d, -f1-9 "$tmp/commands.csv") <(cut -d, -f1-9 "$tmp/commands2.csv")
# the writer formats repr columns in numpy: a Python repr loop re-renders
# the gait streams, the set's training stream (several distinct stage tags)
# and columns 1-9 of the command log, byte for byte
for stream in "$tmp/gait.csv" "$tmp/set/subjects/s01/gait_stream.csv" \
    "$tmp/set/subjects/s01/training.csv"; do
  python3 - "$stream" "$tmp/stream_repr.csv" <<'EOF'
import csv, sys
with open(sys.argv[1], newline="") as src, \
        open(sys.argv[2], "w", newline="") as out:
    rows = csv.reader(src)
    writer = csv.writer(out)
    writer.writerow(next(rows))
    for row in rows:
        writer.writerow([repr(float(cell)) for cell in row[:9]] + row[9:])
EOF
  cmp "$stream" "$tmp/stream_repr.csv"
done
cut -d, -f1-9 "$tmp/commands.csv" > "$tmp/commands_1-9.csv"
python3 - "$tmp/commands_1-9.csv" "$tmp/commands_repr.csv" <<'EOF'
import sys
with open(sys.argv[1]) as src, open(sys.argv[2], "w") as out:
    out.write(next(src))
    for line in src:
        out.write(",".join(repr(float(cell)) for cell in line.split(","))
                  + "\n")
EOF
cmp "$tmp/commands_1-9.csv" "$tmp/commands_repr.csv"
# the writer formats the %.8g physio channels in numpy too: a Python '%'
# loop re-renders s01's ECG, respiration and GSR, byte for byte
for channel in ecg respiration gsr; do
  python3 - "$tmp/set/subjects/s01/physio/$channel.csv" \
    "$tmp/${channel}_percent.csv" <<'EOF'
import sys
with open(sys.argv[1]) as src, open(sys.argv[2], "w") as out:
    out.write(next(src))
    for line in src:
        out.write("%.8g\n" % float(line))
EOF
  cmp "$tmp/set/subjects/s01/physio/$channel.csv" "$tmp/${channel}_percent.csv"
done
# a step of 1e-170 s between the first two frames is below the estimator's
# 1e-9 s minimum: replay exits 1 with a named error, not a traceback
awk -F, -v OFS=, 'NR == 3 { $1 = "1e-170" } { print }' "$tmp/gait.csv" \
  > "$tmp/tiny_step.csv"
status=0
exobench replay "$tmp/tiny_step.csv" --model "$tmp/model.json" \
  --calibration "$tmp/set/calibration.json" 2> "$tmp/tiny_step.err" || status=$?
if [ "$status" -ne 1 ] || grep -q Traceback "$tmp/tiny_step.err"; then
  echo "replay of a 1e-170 s step exited $status:" >&2
  cat "$tmp/tiny_step.err" >&2
  exit 1
fi
# a timestamp of 1e300 s is outside the [-1e10, 1e10] s time bound; its
# step once overflowed the estimator's update into a NaN torque command:
# replay exits 1 with an error naming the file and line, not a traceback
awk -F, -v OFS=, 'NR == 2002 { $1 = "1e300" } { print }' "$tmp/gait.csv" \
  > "$tmp/huge_t.csv"
status=0
exobench replay "$tmp/huge_t.csv" --model "$tmp/model.json" \
  --calibration "$tmp/set/calibration.json" --report "$tmp/huge_t.json" \
  --out "$tmp/huge_t_commands.csv" 2> "$tmp/huge_t.err" || status=$?
if [ "$status" -ne 1 ] || grep -q Traceback "$tmp/huge_t.err" \
    || ! grep -qF "error: $tmp/huge_t.csv: line 2002: " "$tmp/huge_t.err"; then
  echo "replay of a 1e300 s timestamp exited $status:" >&2
  cat "$tmp/huge_t.err" >&2
  exit 1
fi
# a respiration rate of 1e307 Hz is above the 1e6 Hz limit, and a window's
# sample index would overflow: analyze exits 1 with a named error, not a
# traceback
cp -R "$tmp/set" "$tmp/huge_fs"
python3 -c 'import json, pathlib, sys
path = pathlib.Path(sys.argv[1])
manifest = json.loads(path.read_text())
manifest["channels"]["respiration"]["fs"] = 1e307
path.write_text(json.dumps(manifest))' "$tmp/huge_fs/subjects/s01/physio/manifest.json"
status=0
exobench analyze "$tmp/huge_fs" --out "$tmp/huge_fs.json" \
  2> "$tmp/huge_fs.err" || status=$?
if [ "$status" -ne 1 ] || grep -q Traceback "$tmp/huge_fs.err"; then
  echo "analyze of a 1e307 Hz respiration rate exited $status:" >&2
  cat "$tmp/huge_fs.err" >&2
  exit 1
fi
