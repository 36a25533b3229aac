//! **§V hardware claim reproduction** — "On CPU, it's taking 2-3 days to
//! train our whole model but on GPU it took around 16 hours".
//!
//! We have no A100; the substituted axis is CPU thread parallelism over
//! the identical training workload (the same data-parallel batched
//! matmuls a GPU accelerates). The reproduced *shape* is the claim that
//! parallel hardware cuts training wall-clock by a large factor.
//!
//! ```text
//! cargo run --release -p ratatouille-bench --bin experiments -- training_speedup
//! ```

use ratatouille::models::data::Dataset;
use ratatouille::models::registry::{build_model, ModelKind, ModelSpec};
use ratatouille::models::train::{TrainConfig, Trainer};
use ratatouille::tensor::par::set_num_threads;
use ratatouille::Pipeline;
use ratatouille_bench::{pipeline_config, Scale};

pub fn run() {
    let scale = Scale::from_env();
    let pipeline = Pipeline::prepare(pipeline_config(Scale::Quick));
    let steps = match scale {
        Scale::Quick => 10,
        Scale::Standard => 25,
        Scale::Full => 60,
    };
    let spec = ModelSpec::build(ModelKind::Gpt2Medium, &pipeline.train_texts);
    let ds = Dataset::from_texts(&pipeline.train_texts, spec.tokenizer.as_ref(), spec.block_size);

    println!("TRAINING-TIME SPEEDUP — CPU threads as the parallel-hardware axis\n");
    println!(
        "workload: GPT-2 medium, {steps} steps, batch 8, block {}\n",
        spec.block_size
    );
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "threads", "wall (s)", "tok/s", "speedup"
    );
    println!("{}", "-".repeat(48));

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    println!("(machine reports {max_threads} hardware thread(s))");
    if max_threads == 1 {
        println!("NOTE: single-core machine — thread scaling cannot manifest here; the");
        println!("sweep below measures threading overhead instead. Run on a multi-core");
        println!("box to see the paper-shaped speedup.\n");
    }
    // The sweep runs one doubling past the hardware so the table shows
    // where oversubscription starts; the headline quotes the widest row
    // the hardware can actually run in parallel, not the last one run.
    let mut baseline = None;
    let mut at_max = (1, 1.0);
    let mut best = (1, 1.0);
    for threads in [1usize, 2, 4, 8, 16] {
        if threads > max_threads * 2 {
            break;
        }
        set_num_threads(threads);
        // fresh model each time: identical workload, identical init
        let model = build_model(ModelKind::Gpt2Medium, spec.tokenizer.vocab_size());
        let cfg = TrainConfig {
            steps,
            batch_size: 8,
            ..Default::default()
        };
        let stats = Trainer::new(model.as_ref(), &ds, cfg).train();
        let base = *baseline.get_or_insert(stats.wall_secs);
        let speedup = base / stats.wall_secs;
        println!(
            "{:<10} {:>12.2} {:>12.0} {:>9.2}x",
            threads, stats.wall_secs, stats.tokens_per_sec, speedup
        );
        if threads <= max_threads {
            at_max = (threads, speedup);
        }
        if speedup > best.1 {
            best = (threads, speedup);
        }
    }
    set_num_threads(0);

    println!(
        "\npaper's ratio: 2–3 days (CPU serial) vs ~16 h (A100) ≈ 3–4.5×; ours: {:.1}× at {} of {max_threads} hardware thread(s)",
        at_max.1, at_max.0
    );
    if best.0 != at_max.0 {
        println!("(best row: {:.1}× at {} threads)", best.1, best.0);
    }
    if max_threads > 1 {
        println!("(the claim reproduced: parallel hardware gives a multiplicative cut in training wall-clock)");
    } else {
        println!("(shape not measurable on 1 hardware thread — see tensor::par tests and");
        println!(" crates/tensor/tests/pool_proptests.rs, which verify the parallel kernels are");
        println!(" correct; the speedup itself needs real cores)");
    }
}
