//! A minimal standard-cell library with nominal delays.

use serde::Serialize;
use std::fmt;

/// Standard-cell kinds used on timing paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// And-or-invert complex gate.
    Aoi21,
    /// 2:1 multiplexer.
    Mux2,
    /// Exclusive-or.
    Xor2,
}

impl CellKind {
    /// All cell kinds.
    pub const ALL: [CellKind; 7] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Aoi21,
        CellKind::Mux2,
        CellKind::Xor2,
    ];

    /// Nominal cell delay in picoseconds (typical corner, nominal load).
    pub fn nominal_delay_ps(self) -> f64 {
        match self {
            CellKind::Inv => 12.0,
            CellKind::Buf => 18.0,
            CellKind::Nand2 => 16.0,
            CellKind::Nor2 => 20.0,
            CellKind::Aoi21 => 26.0,
            CellKind::Mux2 => 30.0,
            CellKind::Xor2 => 34.0,
        }
    }

    /// Short library name.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Mux2 => "MUX2",
            CellKind::Xor2 => "XOR2",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-layer interconnect parameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InterconnectParams {
    /// Wire delay per micrometre, per metal layer `1..=n_layers`
    /// (index 0 = layer 1). Upper layers are faster (wider/thicker).
    pub ps_per_um: Vec<f64>,
    /// Nominal delay of one via, ps.
    pub via_ps: f64,
}

impl Default for InterconnectParams {
    fn default() -> Self {
        InterconnectParams {
            // M1..M6: lower layers are thin and slow, top layers fast.
            ps_per_um: vec![1.8, 1.5, 1.1, 0.8, 0.55, 0.35],
            via_ps: 2.0,
        }
    }
}

impl InterconnectParams {
    /// Number of metal layers.
    pub fn n_layers(&self) -> u8 {
        self.ps_per_um.len() as u8
    }

    /// Wire delay per µm on `layer` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 or above the layer count.
    pub fn wire_ps_per_um(&self, layer: u8) -> f64 {
        assert!(
            layer >= 1 && layer <= self.n_layers(),
            "layer {layer} out of range 1..={}",
            self.n_layers()
        );
        self.ps_per_um[(layer - 1) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_positive_and_distinct_enough() {
        for c in CellKind::ALL {
            assert!(c.nominal_delay_ps() > 0.0);
        }
        assert!(CellKind::Xor2.nominal_delay_ps() > CellKind::Inv.nominal_delay_ps());
    }

    #[test]
    fn upper_layers_are_faster() {
        let p = InterconnectParams::default();
        for l in 1..p.n_layers() {
            assert!(p.wire_ps_per_um(l) > p.wire_ps_per_um(l + 1));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn layer_zero_rejected() {
        let _ = InterconnectParams::default().wire_ps_per_um(0);
    }
}
