#!/usr/bin/env sh
# Generate API.txt: the public surface of the unified ddcore::api layer
# plus the backend trait implementations and handle-type aliases.
#
# The listing is a line-per-item dump (public items, trait-method
# signatures, impl headers and the public inherent methods under them,
# `#[doc(hidden)]` ones left out) extracted textually from the api/session
# files, the sequential manager kernel (`ddcore::manager`), the parallel
# pipeline (`ddcore::par::pipeline`), the two node shapes and their crate
# roots, the shared diagram walks (`ddcore::walk`) and the `cnf` front-door
# crate, so it needs no nightly tooling. CI regenerates it and diffs against the committed copy —
# accidental changes to the public API fail the build and must be reviewed
# by re-running this script.
#
# Usage: sh tools/api_surface.sh   (writes API.txt at the repo root)
set -eu
cd "$(dirname "$0")/.."

{
    echo "# Public surface of ddcore::api and its backend implementations."
    echo "# Generated by tools/api_surface.sh — regenerate after intentional API changes."
    for f in crates/ddcore/src/api.rs crates/ddcore/src/session.rs crates/ddcore/src/manager.rs \
             crates/ddcore/src/manager/ops.rs crates/ddcore/src/par/pipeline.rs crates/ddcore/src/walk.rs \
             crates/core/src/lib.rs crates/core/src/shape.rs crates/robdd/src/lib.rs crates/robdd/src/shape.rs \
             crates/cnf/src/dimacs.rs crates/cnf/src/schedule.rs crates/cnf/src/build.rs crates/cnf/src/slice.rs crates/cnf/src/order.rs; do
        echo
        echo "== $f"
        awk '
            # Track pub-trait blocks so their method signatures are listed.
            /^pub trait /      { in_trait = 1 }
            in_trait && /^}/   { in_trait = 0 }
            # Public items and impl headers (top-level, brace-stripped).
            /^pub (trait|struct|enum|type|mod|fn) / ||
            /^impl[ <]/                              {
                line = $0
                sub(/ *\{.*$/, "", line)
                sub(/;$/, "", line)
                print line
                next
            }
            # A doc-hidden item: skip the next method it is attached to.
            /^    #\[doc\(hidden\)\]/              { hidden = 1; next }
            /^    (#\[|\/\/\/)/                      { next }
            # Public inherent methods (pin, lift, backend access, ...).
            /^    pub fn /                           {
                line = $0
                sub(/^    pub /, "  pub ", line)
                sub(/ *\{.*$/, "", line)
                sub(/;$/, "", line)
                if (!hidden) print line
                hidden = 0
                next
            }
            { hidden = 0 }
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
