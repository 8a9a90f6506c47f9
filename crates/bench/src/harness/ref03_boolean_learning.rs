//! Paper §1 / ref \[3\] — the PAC escape hatch: learning a 3-term-DNF-
//! style Boolean function is NP-hard *if* you demand simultaneous
//! guarantees on success probability and error (the PAC model), but
//! "if one only seeks good results without guarantee, learning a Boolean
//! function with a high percentage of accuracy can be quite feasible."
//!
//! We sample vectors from a hidden 3-term DNF over 12 variables (the
//! "vector simulation" of ref \[3\]), train a CART tree and a random
//! forest, and measure held-out accuracy — high, but *without* any
//! guarantee, which is exactly the paper's point.

use crate::{pct, Report};
use edm_learn::forest::{ForestParams, RandomForestClassifier};
use edm_learn::tree::{DecisionTreeClassifier, TreeParams};
use rand::rngs::StdRng;
use rand::Rng;

const N_VARS: usize = 12;

/// The hidden function: x0x1x2 + x3x4'x5 + x6x7x8'.
fn hidden_dnf(x: &[bool]) -> bool {
    (x[0] && x[1] && x[2]) || (x[3] && !x[4] && x[5]) || (x[6] && x[7] && !x[8])
}

fn sample(n: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<i32>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let bits: Vec<bool> = (0..N_VARS).map(|_| rng.gen()).collect();
        ys.push(i32::from(hidden_dnf(&bits)));
        xs.push(bits.iter().map(|&b| f64::from(u8::from(b))).collect());
    }
    (xs, ys)
}

pub fn run(s: u64, r: &mut Report) {
    r.header("ref [3]: Boolean-function learning without guarantees");
    let mut rng = crate::rng(3, s);
    let (train_x, train_y) = sample(2_000, &mut rng);
    let (test_x, test_y) = sample(4_000, &mut rng);

    let tree = DecisionTreeClassifier::fit(
        &train_x,
        &train_y,
        TreeParams { max_depth: 14, ..Default::default() },
    )
    .expect("tree fits");
    let forest = RandomForestClassifier::fit(
        &train_x,
        &train_y,
        ForestParams {
            n_trees: 60,
            max_features: Some(N_VARS), // pure bagging: every term's literals stay visible
            tree: TreeParams { max_depth: 14, ..Default::default() },
        },
        &mut rng,
    )
    .expect("forest fits");

    let acc = |f: &dyn Fn(&[f64]) -> i32| {
        test_x.iter().zip(&test_y).filter(|(x, &y)| f(x) == y).count() as f64 / test_x.len() as f64
    };
    let tree_acc = acc(&|x| tree.predict(x));
    let forest_acc = acc(&|x| forest.predict(x));
    outln!(r, "hidden function: 3-term DNF over {N_VARS} vars; train 2000 / test 4000 vectors");
    outln!(r, "decision tree accuracy: {} ({} leaves)", pct(tree_acc), tree.n_leaves());
    outln!(r, "random forest accuracy: {}", pct(forest_acc));
    outln!(
        r,
        "\n(no guarantee is claimed for any particular run — that is the paper's point: \
         drop the simultaneous PAC guarantee and the problem becomes easy in practice)"
    );

    r.claim("a plain CART tree learns the DNF to >= 97% accuracy", tree_acc >= 0.97);
    r.claim("a random forest matches or beats it", forest_acc >= tree_acc - 0.01);
}
