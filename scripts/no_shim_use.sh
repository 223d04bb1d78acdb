#!/usr/bin/env sh
# Keeps one name per type while the re-export shims under crates/tiles
# and crates/pipeline exist only for perfbench.
#
#   sh scripts/no_shim_use.sh
#
# Exits non-zero, listing the offending lines, when any Cargo.toml or
# .rs file of the repository (tracked or untracked, ignored files aside)
# outside crates/tiles, crates/pipeline and perfbench names a shim crate
# or one of the second names the tiles shim gives ccl-stream's types.
# Two lines are allowed: the workspace entry through which the pipeline
# shim's manifest resolves the tiles shim, and the spill manifest's magic
# line, which keeps the format's first name so earlier spills read back.
# Run it from the repository.
set -eu

cd "$(git rev-parse --show-toplevel)"
names='ccl[-_](tiles|pipeline)|TileGrid(Labeler|Config|Stats)|TilesError'
hits=$(git grep --untracked -wE "$names" -- '*.rs' '*Cargo.toml' \
    ':(exclude)crates/tiles' ':(exclude)crates/pipeline' ':(exclude)perfbench' |
    grep -vxF \
        -e 'Cargo.toml:ccl-tiles = { path = "crates/tiles" }' \
        -e 'crates/stream/src/spill.rs:const MANIFEST_MAGIC: &str = "ccl-tiles spill v1";' ||
    true)
if [ -n "$hits" ]; then
    echo "shim crates or second names used outside the shims:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "no shim use"
