//! Golden-output checks: each harness run at the canonical seed
//! (`s = 0`) prints exactly its checked-in `results/<name>.txt`, and
//! `HARNESSES` and the golden files correspond one to one. The slow
//! harnesses (fig07, fig09, fig11, ref20, ablations) are checked by the
//! release-mode `figures` run instead.

use std::collections::BTreeSet;
use std::path::PathBuf;

use edm_bench::HARNESSES;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn golden(name: &str) -> String {
    let path = results_dir().join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn fast_harnesses_print_their_golden_output() {
    let fast = [
        "fig03_kernel_trick",
        "fig05_overfitting",
        "table1_template_refinement",
        "ref32_wafer_patterns",
        "fig10_dstc",
        "fig12_difficult_case",
        "ref03_boolean_learning",
    ];
    for name in fast {
        let h = HARNESSES.iter().find(|h| h.name == name).expect("harness is listed");
        let report = h.run(0);
        assert_eq!(report.stdout(), golden(name), "{name}: stdout differs from results/{name}.txt");
    }
}

#[test]
fn every_harness_has_exactly_one_golden_file() {
    let listed: BTreeSet<String> = HARNESSES.iter().map(|h| h.name.to_string()).collect();
    let goldens: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .filter_map(|e| {
            let name = e.expect("readable entry").file_name().into_string().ok()?;
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    assert_eq!(listed, goldens);
    assert_eq!(listed.len(), HARNESSES.len(), "harness names are unique");
}
