//! The sift trajectory of the paper's Table-I circuits, pinned exactly.
//!
//! Each circuit of the `table1_sift` benchmark is generated, built in file
//! order on a fresh manager, collected and fully sifted. The sifted shared
//! size, the number of adjacent swaps the engine issued and the final
//! variable order are pinned per circuit and package. A change to the swap
//! kernel that claims to do the same reordering with less work must leave
//! all three untouched: the sizes are Table I's quality figures, and the
//! swap count and order prove that every sift decision was the same.

use bbdd::prelude::*;
use logicnet::build::build_network;
use robdd::prelude::*;

/// One row: circuit, sifted shared size, `ops.swaps`, final order.
type Row = (&'static str, usize, u64, &'static [usize]);

/// Build `name`, collect, sift; return its size, swap count and order.
fn trajectory<M: FunctionManager>(
    make: impl Fn(usize) -> M,
    name: &str,
) -> (usize, u64, Vec<usize>) {
    let net = benchgen::mcnc::generate(name).expect("Table-I benchmark");
    let mgr = make(net.num_inputs());
    let roots = build_network(&mgr, &net);
    mgr.gc();
    mgr.reorder().expect("the kernel supports reordering");
    let swaps = mgr.metrics().get("ops.swaps").unwrap_or(0);
    (mgr.shared_node_count(&roots), swaps, mgr.variable_order())
}

fn check<M: FunctionManager>(label: &str, make: impl Fn(usize) -> M + Copy, rows: &[Row]) {
    let got: Vec<_> = rows.iter().map(|r| trajectory(make, r.0)).collect();
    for (r, g) in rows.iter().zip(&got) {
        println!("{label} {}: {g:?}", r.0);
    }
    for (&(name, size, swaps, order), got) in rows.iter().zip(got) {
        assert_eq!(got.0, size, "{label} {name}: sifted size");
        assert_eq!(got.1, swaps, "{label} {name}: ops.swaps");
        assert_eq!(got.2, order, "{label} {name}: final order");
    }
}

#[test]
fn bbdd_sift_trajectory_is_pinned() {
    check("bbdd", BbddManager::with_vars, BBDD);
}

#[test]
fn robdd_sift_trajectory_is_pinned() {
    check("robdd", RobddManager::with_vars, ROBDD);
}

const BBDD: &[Row] = &[
    (
        "C1908",
        6781,
        1106,
        &[
            0, 3, 4, 6, 1, 2, 7, 5, 24, 8, 9, 11, 10, 12, 13, 14, 15, 16, 17, 25, 18, 26, 19, 27,
            20, 28, 21, 29, 22, 30, 23, 31, 32,
        ],
    ),
    (
        "misex3",
        1353,
        303,
        &[2, 6, 3, 4, 13, 10, 7, 11, 0, 9, 1, 5, 8, 12],
    ),
    (
        "alu4",
        1057,
        237,
        &[2, 5, 6, 7, 3, 1, 0, 4, 9, 10, 12, 8, 11, 13],
    ),
    (
        "frg1",
        455,
        1298,
        &[
            2, 4, 1, 13, 0, 12, 16, 8, 9, 10, 5, 3, 18, 17, 25, 6, 20, 21, 22, 23, 27, 11, 19, 14,
            15, 26, 7, 24,
        ],
    ),
    (
        "count",
        649,
        854,
        &[
            1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34,
        ],
    ),
    (
        "cordic",
        80,
        324,
        &[
            0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 2, 21, 22,
        ],
    ),
    (
        "my_adder",
        49,
        530,
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32,
        ],
    ),
];

const ROBDD: &[Row] = &[
    (
        "C1908",
        7130,
        1427,
        &[
            32, 0, 20, 28, 1, 3, 4, 6, 2, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 24, 17, 25, 31,
            23, 30, 22, 29, 21, 27, 19, 26, 18,
        ],
    ),
    (
        "misex3",
        837,
        289,
        &[4, 3, 10, 13, 9, 2, 0, 11, 6, 12, 7, 5, 8, 1],
    ),
    (
        "alu4",
        738,
        271,
        &[0, 4, 1, 5, 6, 2, 9, 8, 7, 3, 10, 11, 12, 13],
    ),
    (
        "frg1",
        277,
        1272,
        &[
            14, 16, 19, 0, 4, 1, 10, 2, 18, 9, 17, 3, 12, 5, 13, 25, 23, 21, 22, 20, 24, 11, 6, 15,
            26, 8, 7, 27,
        ],
    ),
    (
        "count",
        409,
        1048,
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34,
        ],
    ),
    (
        "cordic",
        62,
        500,
        &[
            2, 0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
        ],
    ),
    (
        "my_adder",
        81,
        718,
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32,
        ],
    ),
];
