//! Cross-crate integration tests: the compiler, runtime, Anchorage and the
//! benchmark infrastructure working together, end to end.

use alaska::{AlaskaBuilder, AnchorageConfig, PipelineConfig};
use alaska_benchsuite::harness::{geomean_overhead_pct, measure_benchmark, run_ablation_study};
use alaska_benchsuite::{all_benchmarks, find_benchmark, Scale};
use alaska_compiler::compile_module;
use alaska_ir::interp::{InterpConfig, Interpreter};
use alaska_ir::verify::verify_module;

/// Every benchmark program in the suite keeps its semantics under the full
/// Alaska pipeline and never gets cheaper than the baseline in the cost model.
#[test]
fn all_benchmarks_preserve_semantics_under_the_full_pipeline() {
    let scale = Scale(0.02);
    for bench in all_benchmarks() {
        let module = (bench.build)(scale);
        verify_module(&module).unwrap_or_else(|e| panic!("{}: {e}", bench.name));

        let rt = AlaskaBuilder::new().build();
        let mut interp = Interpreter::new(&module, &rt, InterpConfig::default());
        let baseline = interp.run("main", &[]).unwrap();

        let (transformed, _report) = compile_module(&module, &PipelineConfig::full());
        verify_module(&transformed).unwrap_or_else(|e| panic!("{} transformed: {e}", bench.name));
        let rt2 = AlaskaBuilder::new().with_anchorage().build();
        let mut interp2 = Interpreter::new(&transformed, &rt2, InterpConfig::default());
        let alaska = interp2.run("main", &[]).unwrap();

        assert_eq!(
            baseline.return_value, alaska.return_value,
            "{} changed its result under Alaska",
            bench.name
        );
        assert!(
            alaska.cycles >= baseline.cycles,
            "{}: the cost model should never reward extra work",
            bench.name
        );
        // Every allocation in the transformed program went through the handle table.
        assert_eq!(rt2.stats().hallocs, baseline.dynamic.mallocs, "{}", bench.name);
    }
}

/// The paper's headline overhead shape at reduced scale: a positive geomean
/// overhead that stays moderate, with hoisting-friendly codes far cheaper than
/// pointer chasers.
#[test]
fn overhead_study_shape_matches_the_paper() {
    let scale = Scale(0.05);
    let subset = ["lbm", "mcf", "xalancbmk", "bfs", "crc32", "bt", "sglib", "xz"];
    let results: Vec<_> = subset
        .iter()
        .map(|name| {
            measure_benchmark(&find_benchmark(name).unwrap(), &[PipelineConfig::full()], scale)
        })
        .collect();
    let geomean = geomean_overhead_pct(&results, "alaska");
    assert!(geomean > 0.0 && geomean < 60.0, "geomean overhead out of range: {geomean:.1}%");

    let by_name = |n: &str| results.iter().find(|r| r.name == n).unwrap().alaska_overhead_pct();
    assert!(
        by_name("mcf") > by_name("lbm"),
        "pointer sorting must cost more than grid sweeps ({:.1}% vs {:.1}%)",
        by_name("mcf"),
        by_name("lbm")
    );
    assert!(by_name("sglib") > by_name("bt"), "linked lists must cost more than dense stencils");
}

/// Figure 8's ablation ordering holds: removing hoisting hurts, removing
/// tracking helps (slightly), for the SPEC-like programs.
#[test]
fn ablation_ordering_holds_on_spec_benchmarks() {
    let results = run_ablation_study(Scale(0.04));
    let mut hoisting_wins = 0;
    let mut total = 0;
    for r in &results {
        let alaska = r.config("alaska").unwrap().overhead_pct;
        let nohoist = r.config("nohoisting").unwrap().overhead_pct;
        let notrack = r.config("notracking").unwrap().overhead_pct;
        total += 1;
        if nohoist >= alaska {
            hoisting_wins += 1;
        }
        assert!(
            notrack <= alaska + 3.0,
            "{}: removing tracking should not add overhead ({notrack:.1} vs {alaska:.1})",
            r.name
        );
    }
    assert!(
        hoisting_wins * 10 >= total * 8,
        "hoisting should help (or at least not hurt) the large majority of SPEC-like programs"
    );
}

/// Handles keep working across aggressive defragmentation while a property-
/// style random workload mutates the heap.  The run is one fixed sequence:
/// victims are drawn from the test's own generator, and the 64 KiB sub-heaps
/// leave every pass non-active sources to evacuate.
#[test]
fn random_workload_with_interleaved_defrag_is_consistent() {
    use std::collections::BTreeMap;
    let cfg = AnchorageConfig { subheap_capacity: 64 * 1024, ..Default::default() };
    let rt = AlaskaBuilder::new().with_anchorage_config(cfg).build();
    let mut model: BTreeMap<u64, (u64, usize)> = BTreeMap::new(); // handle -> (seed, len)
    let mut live: Vec<u64> = Vec::new();
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rng = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for step in 0..5_000u64 {
        let r = rng();
        match r % 4 {
            0 | 1 => {
                let len = 16 + (r % 700) as usize;
                let h = rt.halloc(len).unwrap();
                let seed = rng();
                let bytes: Vec<u8> = (0..len).map(|i| (seed as usize + i) as u8).collect();
                rt.write_bytes(h, 0, &bytes);
                model.insert(h, (seed, len));
                live.push(h);
            }
            2 => {
                if !live.is_empty() {
                    let h = live.swap_remove((rng() % live.len() as u64) as usize);
                    model.remove(&h);
                    rt.hfree(h).unwrap();
                }
            }
            _ => {
                if step % 97 == 0 {
                    rt.defragment(Some(64 * 1024));
                }
            }
        }
        if step % 500 == 0 {
            for (&h, &(seed, len)) in model.iter().take(20) {
                let mut buf = vec![0u8; len];
                rt.read_bytes(h, 0, &mut buf);
                let expect: Vec<u8> = (0..len).map(|i| (seed as usize + i) as u8).collect();
                assert_eq!(buf, expect, "object corrupted after movement");
            }
        }
    }
    assert_eq!(rt.live_handles(), model.len() as u64);
    assert!(rt.stats().objects_moved > 0, "defragmentation should have moved something");
}

/// The code-size metric is in the right ballpark (§5.2): moderate growth, not
/// an explosion.
#[test]
fn code_growth_is_moderate() {
    let scale = Scale(0.02);
    for name in ["lbm", "mcf", "crc32", "xalancbmk"] {
        let bench = find_benchmark(name).unwrap();
        let module = (bench.build)(scale);
        let (_m, report) = compile_module(&module, &PipelineConfig::full());
        let growth = report.code_growth();
        assert!(
            (1.0..3.0).contains(&growth),
            "{name}: static growth {growth:.2}x out of expected range"
        );
    }
}
