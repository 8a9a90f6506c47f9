//! Fig. 11 — modeling customer returns: a return projects as an extreme
//! outlier in a selected 3-test space (plot 1), the same model catches a
//! return manufactured months later (plot 2) and returns from a sister
//! product a year later (plot 3).

use crate::{pct, Report};
use edm_core::returns::{self, ReturnScreeningConfig};

pub fn run(s: u64, r: &mut Report) {
    r.header("Figure 11: customer-return screening");
    let config = ReturnScreeningConfig {
        lot_size: 10_000,
        n_lots: 10,
        defect_rate: 3e-4,
        ..Default::default()
    };
    let mut rng = crate::rng(11, s);
    let result = returns::run(&config, &mut rng).expect("flow runs");

    outln!(r, "baseline window: {} lots x {} devices", config.n_lots, config.lot_size);
    outln!(r, "selected test space: {:?}", result.screen.selected_names);
    outln!(r, "\nplot 1 — returns as outliers in the selected space:");
    outln!(r, "  baseline returns: {}", result.n_baseline_returns);
    for (i, p) in result.baseline_return_percentiles.iter().enumerate() {
        outln!(r, "  return #{i}: outlier-score percentile {}", pct(*p));
    }
    outln!(r, "\nplot 2 — later production (months later):");
    outln!(r, "  model catches {}/{} returns", result.later_caught, result.later_total);
    outln!(r, "\nplot 3 — sister product (a year later):");
    outln!(r, "  model catches {}/{} returns", result.sister_caught, result.sister_total);
    outln!(r, "\noverkill on healthy devices: {}", pct(result.overkill_rate));

    let min_pct = result.baseline_return_percentiles.iter().fold(1.0_f64, |m, &p| m.min(p));
    r.claim(
        &format!("returns are extreme outliers (min percentile {})", pct(min_pct)),
        min_pct > 0.95,
    );
    r.claim(
        "the model catches later-production returns",
        result.later_total == 0 || result.later_caught * 3 >= result.later_total * 2,
    );
    r.claim(
        "the model transfers to the sister product",
        result.sister_total == 0 || result.sister_caught * 2 >= result.sister_total,
    );
    r.claim(
        &format!("overkill stays small ({})", pct(result.overkill_rate)),
        result.overkill_rate < 0.01,
    );
}
