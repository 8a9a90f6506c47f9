// Deliberately-bad fixture: every edm-lint lint must fire somewhere
// in this file (and nowhere it shouldn't). Missing
// #![forbid(unsafe_code)] is itself one of the violations.
use std::collections::HashMap;
use std::collections::HashSet;
use std::time::SystemTime;

pub fn spawns_directly() {
    std::thread::spawn(|| {});
}

pub fn scoped_too() {
    std::thread::scope(|_| {});
}

pub fn ambient() -> bool {
    let _ = SystemTime::now();
    let _rng = rand::thread_rng();
    true
}

pub fn probes() {
    let _span = edm_trace::span("alpha.flow");
    let _oops = edm_trace::span("alpha.typo_flow");
    edm_trace::counter_add("alpha.wrongkind", 1);
    edm_trace::counter_handle("alpha.labeled").add(1);
    edm_trace::hist_handle("alpha.labeled_wrongkind").record(1.0);
}

pub fn unwraps(v: Option<u32>) -> u32 {
    v.unwrap()
}

// edm-allow(unordered-iteration): fixture for a reasoned suppression
pub type AllowedMap = HashMap<u32, u32>;

// edm-allow(unordered-iteration)
pub type ReasonlessButSuppressed = HashSet<u32>;

// edm-allow(direct-thread-spawn): nothing below actually spawns
pub fn idle() {}

// edm-allow(not-a-real-lint): bogus id
pub fn bogus() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_code_is_exempt() {
        let mut m: HashMap<u32, u32> = HashMap::new();
        m.insert(1, 2);
        assert_eq!(m.get(&1).copied().unwrap(), 2);
        std::thread::spawn(|| {}).join().ok();
    }
}
