//! Cross-crate panic-path fixture, models half: `decode_greedy` looks
//! innocent, but its helper `argmax` unwraps — a panic two hops from the
//! serving handler in fixtures/xcrate_serving.rs. Seeded sinks: the
//! `.unwrap()` on line 16 and the `panic!` on line 21. `shaped` (line 26)
//! is never called from a handler and must stay unreported.

pub fn decode_greedy(prompt: &[u32], steps: usize) -> Vec<u32> {
    let mut out = prompt.to_vec();
    for _ in 0..steps {
        out.push(argmax(&out));
    }
    out
}

fn argmax(xs: &[u32]) -> u32 {
    *xs.last().unwrap()
}

fn grow(cap: usize) -> usize {
    if cap == 0 {
        panic!("zero capacity");
    }
    cap * 2
}

fn shaped(dims: &[usize]) -> usize {
    dims.iter().product::<usize>().checked_mul(4).unwrap()
}

impl BatchGenerator {
    fn step(&mut self) -> usize {
        grow(self.cap)
    }
}
