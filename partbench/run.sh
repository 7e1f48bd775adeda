#!/usr/bin/env bash
# The partitioner benchmark. Run from the root of a checkout:
#
#   bash partbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The first run in a checkout (and the first after a source change) builds
# the repository and the benchmark with sbt, offline; every run is then one
# JVM. Build and run files stay under .bench_build/ and the sbt target
# directories of the checkout. See partbench/README.md.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f build.sbt ] || [ ! -d src/main/scala/repro/core ]; then
  echo "partbench: no repository sources next to the benchmark; run it from the root of a checkout" >&2
  exit 2
fi

out=$PWD/.bench_build/partbench
mkdir -p "$out/tmp"
# The build directories are shared by every source state of the checkout, so
# the classpath is only trusted if the last build was of exactly these sources.
stamp=$(cat build.sbt project/build.properties partbench/build.sbt partbench/project/build.properties \
  $(find src/main jobs partbench/src -name '*.scala' | LC_ALL=C sort) | sha1sum | cut -c1-16)
classpath=$out/classpath
built=$out/built-stamp

if [ ! -s "$classpath" ] || [ "$(cat "$built" 2>/dev/null)" != "$stamp" ]; then
  echo "partbench: building (sbt, offline)" >&2
  rm -f "$built"
  export COURSIER_MODE=offline
  export SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx2g}"
  (cd partbench && sbt --batch -Dsbt.log.noformat=true -error "export Runtime/fullClasspath") \
    | tail -n 1 > "$classpath.part"
  mv "$classpath.part" "$classpath"
  echo "$stamp" > "$built"
fi

sha=none
if [ -d .git ]; then sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo none); fi

# The parallel collector runs no concurrent threads next to the Spark task
# threads, and made run-to-run times of the allocation-heavy kway-fb15 much
# steadier than the default G1 (README.md).
exec java -Xmx4g -XX:+UseParallelGC -XX:-UsePerfData \
  -Djava.io.tmpdir="$out/tmp" \
  -Dpartbench.workDir="$out" \
  -Dpartbench.gitSha="$sha" \
  -cp "$(cat "$classpath")" repro.partbench.Main "$@"
