//! The field: which shipped devices come back as customer returns.
//!
//! Returns are the paper's Fig. 11 target — devices that pass every
//! production-test limit, operate in the field, and fail there because
//! of the latent defect mechanism. For automotive products "the goal is
//! zero customer returns", which is what makes the extreme-imbalance
//! screening problem worth a methodology of its own.

use rand::Rng;
use serde::Serialize;

use crate::product::Device;

/// Field-failure model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FieldModel {
    /// Probability a latent-defect device fails in the field (per
    /// service life).
    pub defect_fail_prob: f64,
    /// Background field-failure probability of a healthy device
    /// (handling damage etc. — not screenable from parametrics).
    pub background_fail_prob: f64,
}

impl Default for FieldModel {
    fn default() -> Self {
        FieldModel { defect_fail_prob: 0.9, background_fail_prob: 1e-7 }
    }
}

impl FieldModel {
    /// Whether this shipped device comes back from the customer.
    pub fn fails_in_field<R: Rng + ?Sized>(&self, device: &Device, rng: &mut R) -> bool {
        let p =
            if device.latent_defect { self.defect_fail_prob } else { self.background_fail_prob };
        rng.gen::<f64>() < p
    }

    /// Splits shipped devices into (returns, survivors).
    pub fn field_exposure<'a, R: Rng + ?Sized>(
        &self,
        shipped: &[&'a Device],
        rng: &mut R,
    ) -> (Vec<&'a Device>, Vec<&'a Device>) {
        let mut returns = Vec::new();
        let mut survivors = Vec::new();
        for &d in shipped {
            if self.fails_in_field(d, rng) {
                returns.push(d);
            } else {
                survivors.push(d);
            }
        }
        (returns, survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::ProductModel;
    use crate::testflow::TestFlow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn latent_defects_dominate_returns() {
        let p = ProductModel::automotive().with_defect_rate(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let lot = p.generate_lot(0, 20_000, &mut rng);
        let flow = TestFlow::new(p.spec_limits().to_vec());
        let (shipped, _) = flow.screen(&lot);
        let field = FieldModel::default();
        let (returns, _) = field.field_exposure(&shipped, &mut rng);
        assert!(!returns.is_empty(), "a 1% defect rate must produce returns");
        let defective = returns.iter().filter(|d| d.latent_defect).count();
        assert!(defective as f64 / returns.len() as f64 > 0.95);
    }

    #[test]
    fn healthy_devices_rarely_return() {
        let p = ProductModel::automotive().with_defect_rate(0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let lot = p.generate_lot(0, 10_000, &mut rng);
        let flow = TestFlow::new(p.spec_limits().to_vec());
        let (shipped, _) = flow.screen(&lot);
        let field = FieldModel::default();
        let (returns, _) = field.field_exposure(&shipped, &mut rng);
        assert!(returns.len() <= 1, "background rate is ~1e-7");
    }

    #[test]
    fn returns_passed_production_test() {
        let p = ProductModel::automotive().with_defect_rate(0.02);
        let mut rng = StdRng::seed_from_u64(3);
        let lot = p.generate_lot(0, 10_000, &mut rng);
        let flow = TestFlow::new(p.spec_limits().to_vec());
        let (shipped, _) = flow.screen(&lot);
        let (returns, _) = FieldModel::default().field_exposure(&shipped, &mut rng);
        for r in &returns {
            assert!(flow.passes(r), "returns by definition passed the test program");
        }
    }
}
