#!/usr/bin/env sh
# Generate API.txt: the public surface of the unified ddcore::api layer
# plus the backend trait implementations and handle-type aliases.
#
# The listing is a line-per-item dump (public items, trait-method
# signatures, impl headers and the public inherent methods under them,
# `#[doc(hidden)]` ones left out) extracted textually from the api/session
# files, the sequential manager kernel, the parallel pipeline
# (`ddcore::par::pipeline`), the two node-shape modules (`ddcore::bbdd`,
# `ddcore::robdd`), the shared diagram walks (`ddcore::walk`) and the `cnf`
# front-door crate, so it needs no nightly tooling. Only what code outside
# the crate can name is listed: an item of a private module counts only if
# a `pub use` re-exports it, and an impl is left out (with its methods)
# when its trait or type cannot be named. CI regenerates the file and
# diffs it against the committed copy — accidental changes to the public
# API fail the build and must be reviewed by re-running this script.
#
# Usage: sh tools/api_surface.sh   (writes API.txt at the repo root)
set -eu
cd "$(dirname "$0")/.."

files="crates/ddcore/src/api.rs crates/ddcore/src/session.rs crates/ddcore/src/manager.rs
crates/ddcore/src/manager/ops.rs crates/ddcore/src/par/pipeline.rs crates/ddcore/src/walk.rs
crates/ddcore/src/bbdd.rs crates/ddcore/src/bbdd/shape.rs crates/ddcore/src/bbdd/serialize.rs
crates/ddcore/src/robdd.rs crates/ddcore/src/robdd/shape.rs
crates/cnf/src/dimacs.rs crates/cnf/src/schedule.rs crates/cnf/src/build.rs
crates/cnf/src/slice.rs crates/cnf/src/order.rs"

# Is the module of file $1 (under a crate's src/) private, or inside a
# private module? Each path component is looked up in its parent file.
in_private_module() {
    src=${1%%/src/*}/src
    rel=${1#"$src"/}
    parent=$src/lib.rs
    dir=$src
    for part in $(echo "${rel%.rs}" | tr / ' '); do
        grep -q "^mod $part;" "$parent" && return 0
        parent=$dir/$part.rs
        dir=$dir/$part
    done
    return 1
}

# The names every `pub use` of a crate re-exports, one per line.
reexports() {
    find "$1" -name '*.rs' -exec awk '
        /^pub use / { on = 1 }
        on { print; if (/;/) on = 0 }
    ' {} + | tr -c 'A-Za-z0-9_\n' '\n' | grep -v '^$' | sort -u
}

# Items declared in the listed files (any visibility) that outside code
# cannot name.
decl='^(pub(\(crate\))? )?(struct|trait|enum|type|mod|fn) [A-Za-z0-9_]+'
hidden=$(
    for f in $files; do
        src=${f%%/src/*}/src
        grep -Eo "$decl" "$f" | while read -r line; do
            name=${line##* }
            case "$line" in
            "pub "*)
                in_private_module "$f" || continue
                reexports "$src" | grep -qx "$name" && continue ;;
            esac
            echo "$name"
        done
    done | sort -u | tr '\n' ' '
)

{
    echo "# Public surface of ddcore::api and its backend implementations."
    echo "# Generated by tools/api_surface.sh — regenerate after intentional API changes."
    for f in $files; do
        echo
        echo "== $f"
        awk -v hidden="$hidden" '
            BEGIN { n = split(hidden, h, " "); for (i = 1; i <= n; i++) hide[h[i]] = 1 }
            # Does `s` mention a name outside code cannot name? (Only the
            # last segment of a path is a name: `std::ops::Not` is `Not`.)
            function mentions_hidden(s,    t, k, m, parts) {
                t = s
                gsub(/[A-Za-z0-9_]+::/, "", t)
                gsub(/[^A-Za-z0-9_]+/, " ", t)
                m = split(t, parts, " ")
                for (k = 1; k <= m; k++) if (parts[k] in hide) return 1
                return 0
            }
            # An impl header without its generic parameters and body.
            function impl_subject(s,    i, c, d) {
                sub(/^impl/, "", s)
                if (substr(s, 1, 1) == "<") {
                    d = 0
                    for (i = 1; i <= length(s); i++) {
                        c = substr(s, i, 1)
                        if (c == "<") d++
                        else if (c == ">" && --d == 0) break
                    }
                    s = substr(s, i + 1)
                }
                sub(/ *\{.*$/, "", s)
                return s
            }
            # Leaving a top-level block ends trait and impl state.
            /^}/ { in_trait = 0; skip_impl = 0 }
            # Public items and impl headers (top-level, brace-stripped).
            /^pub (trait|struct|enum|type|mod|fn) / {
                name = $3
                sub(/[^A-Za-z0-9_].*$/, "", name)
                if (name in hide) next
                if ($2 == "trait") in_trait = 1
                line = $0
                sub(/ *\{.*$/, "", line)
                sub(/;$/, "", line)
                print line
                next
            }
            /^impl[ <]/ {
                if (mentions_hidden(impl_subject($0))) { skip_impl = 1; next }
                line = $0
                sub(/ *\{.*$/, "", line)
                sub(/;$/, "", line)
                print line
                next
            }
            skip_impl { next }
            # A doc-hidden item: skip the next method it is attached to.
            /^    #\[doc\(hidden\)\]/              { hidden_fn = 1; next }
            /^    (#\[|\/\/\/)/                      { next }
            # Public inherent methods (pin, lift, backend access, ...).
            /^    pub fn /                           {
                line = $0
                sub(/^    pub /, "  pub ", line)
                sub(/ *\{.*$/, "", line)
                sub(/;$/, "", line)
                if (!hidden_fn) print line
                hidden_fn = 0
                next
            }
            { hidden_fn = 0 }
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
