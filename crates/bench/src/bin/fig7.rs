//! **Figure 7**: insert throughput vs error threshold, per dataset.
//!
//! Setup per the paper: the FITing-Tree's buffer is half its error; the
//! fixed-page baseline's page size equals the error with half reserved
//! as buffer; the full index inserts directly. Expected shape: the full
//! index is fastest (no page splits), FITing-Tree and fixed-paging are
//! comparable, with FITing-Tree occasionally ahead at small errors
//! (more segments ⇒ rarer merges).
//!
//! Every structure is built and driven through the generic
//! [`fiting_bench::driver`] — no per-type code paths.
//!
//! Run: `cargo run --release -p fiting-bench --bin fig7`

#![forbid(unsafe_code)]

use fiting_bench::driver::{fiting_spec, fixed_spec, full_spec, insert_mops};
use fiting_bench::{dedup_pairs, default_n, default_seed, print_table};
use fiting_datasets::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// New keys that do not collide with existing ones: midpoints of random
/// gaps.
fn insert_stream(keys: &[u64], count: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let mut out = Vec::with_capacity(count);
    let mut used = std::collections::HashSet::new();
    while out.len() < count {
        let i = rng.gen_range(0..keys.len() - 1);
        let (a, b) = (keys[i], keys[i + 1]);
        if b > a + 1 {
            let k = a + (b - a) / 2;
            if used.insert(k) {
                out.push(k);
            }
        }
    }
    out
}

fn main() {
    let n = default_n();
    let seed = default_seed();
    let inserts_n = (n / 4).max(10_000);
    println!("# Figure 7 — insert throughput vs error ({n} rows preloaded, {inserts_n} inserts)");

    for ds in Dataset::headline() {
        let pairs = dedup_pairs(ds.generate(n, seed));
        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let stream = insert_stream(&keys, inserts_n, seed);
        let mut rows = Vec::new();

        for error in [16u64, 64, 256, 1024] {
            let specs = [fiting_spec(error), fixed_spec(error as usize), full_spec()];
            let mut cells = vec![error.to_string()];
            for spec in &specs {
                let mut index = spec.build(&pairs);
                cells.push(format!("{:.2}", insert_mops(&mut index, &stream)));
            }
            rows.push(cells);
        }
        print_table(
            &format!("{} — insert throughput (M ops/s)", ds.name()),
            &["error", "FITing-Tree", "Fixed", "Full"],
            &rows,
        );
    }
    println!("\nPaper reference (Fig 7): Full > (FITing-Tree ≈ Fixed); FITing-Tree");
    println!("sometimes wins at small errors where many segments mean rare merges.");
}
