//! The parallel executor's contract: tables are byte-identical at any job
//! count, because cell seeds derive from grid position (never execution
//! order) and results reassemble into canonical slots.

use nifdy_harness::{cell_seed, ext, ext_lossy, fig23, fig6, table3, Jobs, Scale};
use proptest::prelude::*;

/// Every experiment's table, rendered at one job count.
fn render_quick_suite(jobs: Jobs, seed: u64) -> String {
    let mut out = String::new();
    let (t, _) = table3::run(seed, jobs);
    out.push_str(&t.to_string());
    let (t, _) = fig23::run(true, Scale::Smoke, seed, jobs);
    out.push_str(&t.to_string());
    let (t, _) = fig23::run(false, Scale::Smoke, seed, jobs);
    out.push_str(&t.to_string());
    let (t, _) = fig6::run(Scale::Smoke, seed, jobs);
    out.push_str(&t.to_string());
    let (t, _) = ext::run_adaptive(Scale::Smoke, seed, jobs);
    out.push_str(&t.to_string());
    let (t, _) = ext_lossy::run_lossy(Scale::Smoke, seed, jobs);
    out.push_str(&t.to_string());
    out
}

#[test]
fn tables_are_byte_identical_across_job_counts() {
    let sequential = render_quick_suite(Jobs::serial(), 1);
    for jobs in [2, 4, 16] {
        let parallel = render_quick_suite(Jobs::new(jobs), 1);
        assert_eq!(sequential, parallel, "--jobs {jobs} diverged from --jobs 1");
    }
}

#[test]
fn tables_depend_on_the_base_seed() {
    // The base seed must actually reach the cells: a different base gives a
    // different (but still internally consistent) suite.
    let a = render_quick_suite(Jobs::new(4), 1);
    let b = render_quick_suite(Jobs::new(4), 2);
    assert_ne!(a, b, "base seed is not reaching the derived cell seeds");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Across a whole experiment grid — every runner name crossed with more
    /// cell indices than any real figure uses — derived seeds never collide,
    /// for any base seed.
    #[test]
    fn derived_cell_seeds_never_collide(base in any::<u64>()) {
        let experiments = [
            "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig9.coalesce", "sweep:mesh-2d", "sweep:fat-tree",
            "ext:adaptive", "ext:loadsweep", "ext:lossy",
        ];
        let mut seen = std::collections::BTreeMap::new();
        for exp in experiments {
            for index in 0..64u64 {
                let s = cell_seed(exp, index, base);
                if let Some(prev) = seen.insert(s, (exp, index)) {
                    panic!(
                        "seed collision: {prev:?} and {:?} both derive {s:#x} from base {base:#x}",
                        (exp, index)
                    );
                }
            }
        }
    }

    /// Derivation is base-sensitive: the same cell under different base
    /// seeds yields different streams (no accidental constant folding).
    #[test]
    fn derived_seeds_vary_with_base(a in any::<u64>(), b in any::<u64>()) {
        prop_assert!(
            a == b || cell_seed("fig2", 0, a) != cell_seed("fig2", 0, b),
            "bases {a:#x} and {b:#x} derived the same seed"
        );
    }
}
