#!/usr/bin/env sh
# Generate API.txt: the public surface of the unified ddcore::api layer
# plus the backend trait implementations and handle-type aliases.
#
# The listing is a line-per-item dump (public items, trait-method
# signatures, and `impl ... for ...` headers) extracted textually from the
# api/session files, the parallel pipeline (`ddcore::par::pipeline` and the
# two node-shape impls), the shared diagram walks (`ddcore::walk`) and the
# `cnf` front-door crate, so it needs no nightly tooling. CI regenerates it and diffs against the committed copy —
# accidental changes to the public API fail the build and must be reviewed
# by re-running this script.
#
# Usage: sh tools/api_surface.sh   (writes API.txt at the repo root)
set -eu
cd "$(dirname "$0")/.."

{
    echo "# Public surface of ddcore::api and its backend implementations."
    echo "# Generated by tools/api_surface.sh — regenerate after intentional API changes."
    for f in crates/ddcore/src/api.rs crates/ddcore/src/session.rs crates/ddcore/src/par/pipeline.rs crates/ddcore/src/walk.rs \
             crates/core/src/api.rs crates/core/src/par.rs crates/robdd/src/api.rs crates/robdd/src/par.rs \
             crates/cnf/src/dimacs.rs crates/cnf/src/schedule.rs crates/cnf/src/build.rs crates/cnf/src/slice.rs crates/cnf/src/order.rs; do
        echo
        echo "== $f"
        awk '
            # Track pub-trait blocks so their method signatures are listed.
            /^pub trait /      { in_trait = 1 }
            in_trait && /^}/   { in_trait = 0 }
            # Public items and impl headers (top-level, brace-stripped).
            /^pub (trait|struct|enum|type|mod|fn) / ||
            /^impl[ <].* for /                       {
                line = $0
                sub(/ *\{.*$/, "", line)
                sub(/;$/, "", line)
                print line
                next
            }
            # Public inherent methods (pin, lift, backend access, ...).
            /^    pub fn /                           {
                line = $0
                sub(/^    pub /, "  pub ", line)
                sub(/ *\{.*$/, "", line)
                sub(/;$/, "", line)
                print line
                next
            }
            # Trait-method signatures (4-space indented fn lines).
            in_trait && /^    fn /                   {
                line = $0
                sub(/^    /, "  ", line)
                sub(/ *\{.*$/, "", line)
                sub(/;$/, "", line)
                print line
            }
        ' "$f"
    done
} > API.txt

echo "wrote API.txt ($(wc -l < API.txt) lines)"
