#!/bin/sh
# Usage: cli_counts.sh ULSBENCH
# Each invocation passes 0 to a flag where 0 is meaningless, names an
# experiment, scenario, schedule or gate that does not exist, or leaves
# out a flag's required value; each must exit 124 (cmdliner's usage
# error), never run.
bin="$1"
status=0
for args in "latency --iters 0" "collective --iters 0" "bandwidth --msg 0" \
  "latency --size 0" "figures nosuch" "races --scenario nosuch" \
  "races --scenario lost-signal --replay-schedule 0.4.1" "check nosuch" \
  "latency --trace"; do
  # shellcheck disable=SC2086
  "$bin" $args >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 124 ]; then
    echo "ulsbench $args: exit $code, expected 124" >&2
    status=1
  fi
done
exit $status
